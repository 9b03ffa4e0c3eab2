"""`python -m qmatalg ...`: the qmatalg command line of qmatalg.cli."""

import sys

from qmatalg.cli import main

sys.exit(main())
