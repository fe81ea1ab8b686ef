"""Flexible Lattes maps: construction, perturbation, and collision solving.

The modules layer bottom-up: `elliptic` evaluates the torus quotient map,
`lattes` builds the rational maps it semiconjugates, `dynamics` provides
chart-safe iteration utilities on the sphere, `perturbation` tracks marked
preperiodic points through one-parameter perturbations and solves collision
equations, and `cli` wires it all into a command line tool.  Importing the
package loads every layer module except `cli`, and no numpy: the map type
and the scalar dynamics are pure Python, and only the code that builds
arrays imports numpy, inside the function.
"""

from . import dynamics, elliptic, errors, lattes, perturbation  # noqa: F401

__version__ = "0.1.0"
