"""The Row-Column (RoCo) Decoupled Router — the paper's contribution.

Its modules are imported by name (``roco.router``, ``roco.module``,
``roco.path_set``); the package imports none of them, so reading the
Table-1 specs never imports the router.
"""
