"""Earlier, simpler implementations kept as test oracles for the faster
code that replaced them."""
