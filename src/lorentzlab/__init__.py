"""lorentzlab: a desk-scale 2D random Lorentz gas laboratory.

Three levels of description of the same system, built to be compared:

* mechanical -- a point particle through a Poisson field of circular
  potential barriers (refraction model) or hard disks (reflection),
  integrated event by event (`scattering`, `medium`, `dynamics`);
* kinetic -- the velocity-jump transport process and angular Brownian
  motion on the speed circle, with their coefficients (`kinetic`);
* macroscopic -- the heat equation and the boundary-driven stationary
  slab with Fick's law (`macroscale`).

`experiments` + the `lorentz` CLI run the cross-scale comparisons, each
process loading only its subcommand's runner module.
"""

__version__ = "0.1.0"
