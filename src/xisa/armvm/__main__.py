"""``python -m xisa.armvm BINARY``: the command line of ``xisa.armvm``."""
import sys

from xisa.armvm import main

sys.exit(main())
