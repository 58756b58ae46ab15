package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/retrieval"
)

// built is a generated corpus, indexed and saved: everything of a set-up
// that happens before the first process starts.
type built struct {
	ix                           *retrieval.Index // the in-process build: the sharded workloads' exact reference
	indexPath                    string           // what the primary process serves
	fullDir                      string           // fanout: the whole index saved as one directory
	nodesDir                     string           // fanout: one directory per shard
	genS, buildS, saveS, exportS float64
}

// system is a booted topology over a built index.
type system struct {
	*built
	primary *proc   // first index-serving process
	nodes   []*proc // every index-serving process
	router  *proc   // fanout only
	target  string  // where search traffic goes
	bootS   float64 // first exec → every process ready
}

func (s *system) procs() []*proc {
	if s.router != nil {
		return append(append([]*proc(nil), s.nodes...), s.router)
	}
	return s.nodes
}

// stop ends the processes; the built index stays.
func (s *system) stop() {
	for _, p := range s.procs() {
		p.stop()
	}
}

func buildOptions(wl workload, sc scale) []retrieval.Option {
	opts := []retrieval.Option{
		retrieval.WithRank(sc.rank),
		retrieval.WithEngine(retrieval.EngineRandomized),
		retrieval.WithStopwordRemoval(false),
		retrieval.WithStemming(false),
	}
	if wl.shards > 0 {
		opts = append(opts, retrieval.WithShards(wl.shards), retrieval.WithSealEvery(sc.sealEvery))
	}
	if wl.tiered {
		opts = append(opts, retrieval.WithANN(sc.topics, sc.nprobe), retrieval.WithQuantized(sc.quantBeta))
	}
	return opts
}

// build generates the corpus, builds the index on it (ingest_mixed: on
// its first nine tenths, the rest is what the writer posts) and saves it.
func build(cfg *runConfig, dir string) (*inputs, *built, error) {
	wl, sc := cfg.wl, cfg.sc
	b := &built{}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}

	t := time.Now()
	in, err := makeInputs(sc, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	if wl.ingest {
		in.docs, in.held = in.docs[:len(in.docs)*9/10], in.docs[len(in.docs)*9/10:]
	}
	b.genS = time.Since(t).Seconds()

	t = time.Now()
	if b.ix, err = retrieval.Build(in.docs, buildOptions(wl, sc)...); err != nil {
		return nil, nil, err
	}
	b.buildS = time.Since(t).Seconds()

	t = time.Now()
	if wl.shards == 0 {
		b.indexPath = filepath.Join(dir, "index.lsi")
		err = saveFile(b.ix, b.indexPath)
	} else {
		b.indexPath = filepath.Join(dir, "index")
		err = b.ix.SaveDir(b.indexPath)
	}
	if err != nil {
		return nil, nil, err
	}
	b.saveS = time.Since(t).Seconds()

	if wl.fanout {
		t = time.Now()
		b.fullDir, b.nodesDir = b.indexPath, filepath.Join(dir, "nodes")
		if err := b.ix.SaveShardDirs(b.nodesDir); err != nil {
			return nil, nil, err
		}
		b.indexPath = filepath.Join(b.nodesDir, "shard-0")
		b.exportS = time.Since(t).Seconds()
	}
	return in, b, nil
}

// boot starts the workload's processes over a built index and waits until
// each answers /readyz: one lsiserve, or one node per shard and a router.
// dir takes what this boot writes (the WAL, the cluster manifest).
func boot(ctx context.Context, cfg *runConfig, b *built, dir string) (*system, error) {
	wl := cfg.wl
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sys := &system{built: b}
	ok := false
	defer func() {
		if !ok {
			sys.stop()
		}
	}()
	t := time.Now()
	if wl.fanout {
		type node struct {
			Name  string `json:"name"`
			URL   string `json:"url"`
			Shard int    `json:"shard"`
		}
		var nodes []node
		for s := 0; s < wl.shards; s++ {
			p, err := startServer(ctx, cfg.serverBin, fmt.Sprintf("node-%d", s),
				"-index", filepath.Join(b.nodesDir, fmt.Sprintf("shard-%d", s)))
			if err != nil {
				return nil, err
			}
			sys.nodes = append(sys.nodes, p)
			nodes = append(nodes, node{Name: p.name, URL: p.url, Shard: s})
		}
		man, err := json.Marshal(map[string]any{"version": 1, "shards": wl.shards, "nodes": nodes})
		if err != nil {
			return nil, err
		}
		manPath := filepath.Join(dir, "cluster.json")
		if err := os.WriteFile(manPath, man, 0o644); err != nil {
			return nil, err
		}
		if sys.router, err = startServer(ctx, cfg.serverBin, "router", "-cluster", manPath); err != nil {
			return nil, err
		}
		sys.target = sys.router.url
	} else {
		p, err := startServer(ctx, cfg.serverBin, "lsiserve", serveArgs(wl, cfg.sc, b.indexPath, filepath.Join(dir, "wal"))...)
		if err != nil {
			return nil, err
		}
		sys.nodes = []*proc{p}
		sys.target = p.url
	}
	sys.primary = sys.nodes[0]
	sys.bootS = time.Since(t).Seconds()
	ok = true
	return sys, nil
}

// serveArgs are lsiserve's flags for the workload: the index, the tiers'
// runtime knobs, the WAL.
func serveArgs(wl workload, sc scale, indexPath, walDir string) []string {
	args := []string{"-index", indexPath}
	if wl.tiered {
		args = append(args, "-ann-nlist", fmt.Sprint(sc.topics), "-ann-nprobe", fmt.Sprint(sc.nprobe),
			"-quant-beta", fmt.Sprint(sc.quantBeta))
	}
	if wl.ingest {
		args = append(args, "-wal-dir", walDir)
	}
	return args
}

func saveFile(ix *retrieval.Index, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ix.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
