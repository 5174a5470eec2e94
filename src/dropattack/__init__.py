"""Attack synthesis and simulation for control loops with lossy actuation.

A linear plant is driven by a receding-horizon controller whose commands
cross a packet-drop channel with per-channel Bernoulli delivery rates.  The
package builds the horizon controllers for acknowledgement-based (tcp-like)
and fire-and-forget (udp-like) loops, characterizes how the expected
horizon cost responds when an attacker shifts the delivery rates inside a
detection-constrained region, synthesizes optimal stationary and
per-step attack schedules, and validates every closed form by Monte-Carlo
simulation.
"""

from . import (
    attack_iid, attack_qp, channel, config, controller, costs, errors, model,
    simulate,
)
from .attack_iid import *  # noqa: F403 -- a module's __all__ names its API
from .attack_qp import *  # noqa: F403
from .channel import *  # noqa: F403
from .config import *  # noqa: F403
from .controller import *  # noqa: F403
from .costs import *  # noqa: F403
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .simulate import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (
        attack_iid, attack_qp, channel, config, controller, costs, errors,
        model, simulate,
    )
    for name in module.__all__
]
