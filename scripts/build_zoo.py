"""Build every zoo model into the artifacts cache, one after another.

A cold build trains the 11 specs serially, 16 500 training steps in
all: about 21 minutes measured on a 2-vCPU host.  A warm cache only
loads them.
"""
import time
from repro.zoo import load_model, zoo_names

t0 = time.perf_counter()
for name in zoo_names():
    print(f"=== building {name} (t={time.perf_counter()-t0:.0f}s) ===", flush=True)
    store = load_model(name, verbose=True)
    print(f"=== {name} cached, {store.n_params()} params ===", flush=True)
print(f"ALL ZOO MODELS BUILT in {time.perf_counter()-t0:.0f}s", flush=True)
