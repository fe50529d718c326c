"""MCMC library code for the base updates (paper Section 4.4).

Generated code provides the model-specific primitives (likelihood
evaluation, closed-form conditionals, gradients); everything else --
leapfrog integration, the NUTS tree, slice stepping-out, elliptical
slice rotation, acceptance-ratio bookkeeping -- is library code, which
is exactly the paper's division ("the rest of the functionality can be
supported as library code").
"""

from repro.runtime.mcmc.accept import mh_accept

__all__ = ["mh_accept"]
