"""Independent reference models the tests hold the library's fast paths to."""

import numpy as np


def element_positions(spec, wavelength: float) -> np.ndarray:
    """Local coordinates (n, 3) of an array's or surface's elements, row-major
    over its grid (`spec.grid_axes`): element r * cols + c sits at
    (0, horiz[c], vert[r]).  A surface's grid is centred on its position; a
    terminal array's element 0 is its phase reference."""
    vert, horiz = spec.grid_axes(wavelength)
    return np.column_stack([np.zeros(vert.size * horiz.size), np.tile(horiz, vert.size),
                            np.repeat(vert, horiz.size)])
