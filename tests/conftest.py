from hypothesis import settings

# Property tests draw the same examples on every run, and slow shared hosts do not fail them.
settings.register_profile("default", derandomize=True, deadline=None)
settings.load_profile("default")
