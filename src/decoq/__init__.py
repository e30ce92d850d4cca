"""Decoherence measures for single-qubit channels and measurement-free QEC.

The library lives in the submodules ``channels``, ``codes``,
``decoherence``, ``dqd``, ``noise``, ``reads``, ``sim`` and ``sweep``; the
command-line interface is ``cli``.  Importing the package loads none of
them, so ``decoq dqd`` runs on the standard library alone.
"""
__version__ = "0.1.0"
