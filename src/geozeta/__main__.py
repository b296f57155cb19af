import gc
import sys

from .entry import main

status = main()
# every object the run made stays alive to the end; freezing them spares the
# interpreter's last collection a walk over all of them before the exit
gc.freeze()
sys.exit(status)
