"""FM Backscatter (NSDI 2017) reproduction library.

Transforms everyday objects into FM radio stations: backscatter ambient
FM broadcasts so that any unmodified FM receiver (smartphone, car radio)
decodes the overlaid audio or data. See DESIGN.md for the system map and
README.md for the paper-figure reproductions.
"""

from repro._version import __version__

__all__ = ["__version__"]
