"""Child process behind ``setup_s``: import secrelay fresh, finish lazy set-up.

Usage: python3 setup_probe.py SRC_DIR

Prints one JSON line: the seconds from before ``import secrelay`` until the
order-24 Laguerre and Hermite rules and the paper-fig2 preset are built,
split into its parts.
"""
import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import secrelay  # noqa: E402

imported = time.perf_counter()
for name in ("gauss_laguerre_rule", "gauss_hermite_rule"):
    rule = getattr(secrelay, name, None)
    if rule is not None:
        rule(24)
rules = time.perf_counter()
secrelay.preset_run_config("paper-fig2")
done = time.perf_counter()
print(json.dumps({
    "module": secrelay.__file__,
    "setup_s": done - start,
    "import_s": imported - start,
    "rule_build_ms": (rules - imported) * 1e3,
    "preset_ms": (done - rules) * 1e3,
}))
