from hypothesis import settings

# Derandomized, so every run draws the same examples, and without a
# per-example deadline: this suite's wall times vary by up to 1.7x between
# runs on a shared machine, which would make deadlines flaky.
settings.register_profile("phaselab", derandomize=True, deadline=None)
settings.load_profile("phaselab")
