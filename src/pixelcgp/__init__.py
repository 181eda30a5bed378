"""Mixed-type Cartesian Genetic Programming for pixel-input controllers."""
