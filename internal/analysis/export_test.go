package analysis

// SortWindowOracle exposes the linear reference scan to the external
// tests that drive it over generated traces.
var SortWindowOracle = sortWindowOracle
