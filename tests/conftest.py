from hypothesis import settings

# Property tests replay the same examples on every run and never fail on time:
# a slow example on a loaded machine is not a defect.
settings.register_profile("contikit", derandomize=True, deadline=None)
settings.load_profile("contikit")
