"""DET002 positive fixture: wall-clock reads in simulated code."""

import time
from datetime import datetime


def stamp():
    return time.time()


def tick():
    return time.monotonic()


def lap():
    return time.perf_counter()


def born():
    return datetime.now()
