package cluster_test

import (
	"repro/retrieval"
	"repro/retrieval/cluster"
	"repro/retrieval/httpapi"
)

// The httpapi capability interfaces name their implementers in their
// doc comments; these assertions hold those claims to the code. They
// live here because cluster's tests may import both packages.
var (
	_ httpapi.EpochReporter  = (*retrieval.Index)(nil)
	_ httpapi.EpochReporter  = (*cluster.Replica)(nil)
	_ httpapi.FanoutSearcher = (*cluster.Router)(nil)
	_ httpapi.DocAdder       = (*retrieval.Index)(nil)
	_ httpapi.DocAdder       = (*cluster.Router)(nil)
	_ httpapi.ReadyReporter  = (*retrieval.Index)(nil)
	_ httpapi.ReadyReporter  = (*cluster.Router)(nil)
)
