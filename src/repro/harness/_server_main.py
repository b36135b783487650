"""Fork-server only: import the parent's entry point once, as ``__mp_main__``.

Last in the preload list of :func:`repro.harness.parallel.worker_context`,
which leaves the entry point in the environment of a starting server;
nothing else names this module.  Every fork then finds ``__main__`` in
place and its own ``spawn.prepare()`` returns without replaying the
script.  A bad entry point may cost that speed, never the pool: the
traceback goes to the server's stderr once, ``__main__`` is left alone
and each worker replays the script itself, as it did before.
"""

import json
import os
import traceback
from multiprocessing import process, spawn

from repro.harness.parallel import _MAIN_TRANSPORT

_sent = os.environ.pop(_MAIN_TRANSPORT, None)  # before the first fork
if _sent is not None:
    process.current_process()._inheriting = True  # as in a child's bootstrap
    try:
        spawn.prepare(json.loads(_sent))
    except (Exception, SystemExit):  # module-level argparse exits
        traceback.print_exc()
    finally:
        del process.current_process()._inheriting
