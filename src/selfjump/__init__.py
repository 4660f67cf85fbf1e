"""Self-interacting Markov jump processes on finite state spaces.

An exact trajectory sampler for occupation-dependent jump rates, evaluation
and minimization of the associated large-deviation rate functions, and
Monte Carlo decay-rate estimation for cross-validation.  The API is the
modules: ``core``, ``sim``, ``ldp``, ``varsolve``, ``mc``, ``config``,
``errors`` and ``cli``.
"""

__version__ = "0.1.0"
