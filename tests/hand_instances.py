"""Hand instances shared by several test modules."""

import numpy as np

from randadj.design import build_hat_structure
from randadj.estimators import ScienceTable

# instance found by seeded search where both cb variants go negative when
# units CLAMP_TREATED are treated
CLAMP_X = [1.3193999951283466, 0.12984955820714128, 0.6856547984955702,
           -0.857256736283214, 0.06136877453027201, 0.24449426824650627,
           0.8449208635972639, 1.4838394877932772]
CLAMP_Y1 = [-0.009969426355952174, -0.025141490318042265, -0.043308888115797604,
            -0.0360836962551632, -0.05490503151186526, -0.06551144043528499,
            -0.01127565779076707, -0.05666648382068107]
CLAMP_Y0 = [0.034217188254345415, -0.06406719338877465, 0.05931791238447102,
            -0.03896615836225436, -0.011492519040950736, -0.016030221798145537,
            0.02658925413170587, 0.09721183988672161]
CLAMP_TREATED = [1, 2, 5, 6]


def clamp_table() -> ScienceTable:
    """The science table of the CLAMP_* instance."""
    x = np.array(CLAMP_X)[:, None]
    return ScienceTable(y1=np.array(CLAMP_Y1), y0=np.array(CLAMP_Y0), x=x,
                        hat=build_hat_structure(x))
