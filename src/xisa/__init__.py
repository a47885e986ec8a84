"""Cross-ISA assembly transpilation harness.

Import the submodules themselves (``xisa.core``, ``xisa.armvm``, ...): the
package imports nothing, so ``python -m xisa.armvm`` loads only the
interpreter.
"""

__version__ = "0.1.0"
