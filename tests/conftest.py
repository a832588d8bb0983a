"""Put ``tools/`` on the import path, so that tests import
``report_matrix`` as the module they check and run reports with."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
