"""The mutation check's list stays applicable to the source it mutates.

``tests/mutants.py`` runs pytest once per mutant, too slow for this suite.
This reads its list only: a refactor that moves a mutated text fails here
at once, not only when the mutation check runs.
"""

import mutants


def test_every_mutant_text_occurs_once():
    for mutant in mutants.MUTANTS:
        text = (mutants.ROOT / "src" / "gabrec" / mutant.file).read_text()
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
        for test in mutant.tests:
            assert (mutants.ROOT / test.split("::")[0]).is_file(), (mutant.name, test)
