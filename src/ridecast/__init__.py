"""Broadcasting-mode ride-hailing market simulator with dynamic matching
radii: a transformer-encoder metric forecaster picks, per grid and per time
window, the broadcast radius with the best predicted composite performance.
"""
