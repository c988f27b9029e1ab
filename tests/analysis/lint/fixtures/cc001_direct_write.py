CACHE = {}
TOTAL = 0


def worker(unit):
    global TOTAL
    TOTAL += 1
    CACHE[unit] = unit * 2
    local = {}
    local[unit] = 1
    return CACHE[unit]


def sweep(runner, units):
    runner.run(units, map_fn=worker)
## path: repro/experiments/fx.py
## expect: CC001 @ 5:0
