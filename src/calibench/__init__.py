"""calibench: exact verification workbench for an eight-dimensional
calibration form on R^16 and the structures underneath it (exterior algebra,
octonions, a Clifford spinor transfer, calibrated plane families, and a
Stiefel comass search)."""
