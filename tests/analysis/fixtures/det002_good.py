"""DET002 negative fixture: time comes from the simulator clock."""


def measure(sim, work):
    begin = sim.now
    work()
    return sim.now - begin


def simulated_now(sim):
    return sim.now
