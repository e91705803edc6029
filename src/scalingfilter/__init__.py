"""Reference-free pretraining-data quality filtering toolkit.

Scores documents by the perplexity ratio between two same-data models of
unequal capacity, selects high-quality subsets under several policies,
measures filtered-set semantic diversity via eigenvalue entropy, and
numerically verifies the scaling-law reasoning behind the score.

The package root re-exports nothing: import from the modules
(``scalingfilter.scoring``, ``scalingfilter.selection``, ...) or run the
``scalingfilter.cli`` entry point.
"""

__version__ = "0.1.0"
