"""End-to-end benchmark of the NeuSpin serving stack (see README.md)."""
