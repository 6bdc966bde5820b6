package analysis

// SortWindowOracle exposes the linear reference scan, and StreamSort the
// pending window driven one access at a time, to the external tests
// that drive them over generated traces.
var (
	SortWindowOracle = sortWindowOracle
	StreamSort       = streamSort
)
