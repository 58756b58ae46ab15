package cluster

// The serving constants the external cluster_test package derives its
// loop counts, clock steps and deadlines from.
const (
	HedgeAfter      = hedgeAfter
	PollInterval    = pollInterval
	TripConsecutive = tripConsecutive
)
