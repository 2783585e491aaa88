"""Exception types shared across the package."""


class ParseError(ValueError):
    """A document (space matrix or graph edge list) failed to parse."""


class InternalInvariantError(RuntimeError):
    """Two routes that must agree produced different answers.

    Raised when a cross-check the library performs on its own results
    fails; seeing this means a bug, not bad input.
    """


class SearchBudgetExceeded(Exception):
    """The weak-similarity search ran out of work before an answer.

    Not a `ValueError`: the input is fine and the question is left
    undecided.  `nodes` counts the search nodes visited, `work` the
    refined pair entries spent and `budget` the entries allowed.
    """

    def __init__(self, nodes: int, work: int, budget: int):
        super().__init__(
            f"search budget of {budget} refined pair entries ran out "
            f"after {nodes} nodes and {work} entries"
        )
        self.nodes = nodes
        self.work = work
        self.budget = budget
