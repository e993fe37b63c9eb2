from hypothesis import settings

# Property tests time whole fits and inversions; on a loaded host a single
# example can exceed hypothesis's default 200 ms deadline without any fault.
settings.register_profile("claimtails", deadline=None)
settings.load_profile("claimtails")
