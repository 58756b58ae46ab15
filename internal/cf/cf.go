// Package cf applies the paper's spectral machinery to collaborative
// filtering, the application Section 6 singles out: "the rows and columns
// of A could in general be, instead of terms and documents, consumers and
// products, viewers and movies". The generator mirrors the probabilistic
// corpus model — taste groups play the role of topics, consumption
// histories the role of documents — and the recommender is rank-k LSI on
// the item-user matrix, compared against a popularity baseline.
package cf

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/mat"
	"repro/internal/sparse"
	"repro/internal/svd"
)

// Config describes the latent-preference generator.
type Config struct {
	Users, Items int
	// Groups is the number of latent taste groups; items are partitioned
	// evenly among them and each user belongs to one.
	Groups int
	// EventsPerUser is the number of consumption events sampled per user.
	EventsPerUser int
	// Affinity is the probability that an event targets an item from the
	// user's own group (the analogue of 1−ε separability); the rest are
	// uniform over all items.
	Affinity float64
	// HoldoutPerUser is how many distinct consumed items per user are
	// hidden from the training matrix for evaluation.
	HoldoutPerUser int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Users < 1 || c.Items < 1 {
		return fmt.Errorf("cf: need positive users/items, got %d/%d", c.Users, c.Items)
	}
	if c.Groups < 1 || c.Groups > c.Items {
		return fmt.Errorf("cf: groups = %d out of [1,%d]", c.Groups, c.Items)
	}
	if c.Items%c.Groups != 0 {
		return fmt.Errorf("cf: items (%d) must divide evenly into groups (%d)", c.Items, c.Groups)
	}
	if c.EventsPerUser < 1 {
		return fmt.Errorf("cf: EventsPerUser = %d, want >= 1", c.EventsPerUser)
	}
	if c.Affinity < 0 || c.Affinity > 1 {
		return fmt.Errorf("cf: Affinity = %v, want [0,1]", c.Affinity)
	}
	if c.HoldoutPerUser < 0 {
		return fmt.Errorf("cf: HoldoutPerUser = %d, want >= 0", c.HoldoutPerUser)
	}
	return nil
}

// Dataset is a generated implicit-feedback dataset split into train and
// held-out interactions.
type Dataset struct {
	Config Config
	// Train is the items×users count matrix of training interactions.
	Train *sparse.CSR
	// Held maps each user to the item IDs hidden for evaluation.
	Held [][]int
	// UserGroup and ItemGroup are the ground-truth latent assignments.
	UserGroup []int
	ItemGroup []int
}

// Generate samples a dataset from the latent-preference model.
func Generate(c Config, rng *rand.Rand) (*Dataset, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	perGroup := c.Items / c.Groups
	itemGroup := make([]int, c.Items)
	for i := range itemGroup {
		itemGroup[i] = i / perGroup
	}
	userGroup := make([]int, c.Users)
	counts := make([]map[int]int, c.Users)
	for u := 0; u < c.Users; u++ {
		g := rng.Intn(c.Groups)
		userGroup[u] = g
		counts[u] = map[int]int{}
		for e := 0; e < c.EventsPerUser; e++ {
			var item int
			if rng.Float64() < c.Affinity {
				item = g*perGroup + rng.Intn(perGroup)
			} else {
				item = rng.Intn(c.Items)
			}
			counts[u][item]++
		}
	}
	held := make([][]int, c.Users)
	coo := sparse.NewCOO(c.Items, c.Users)
	for u := 0; u < c.Users; u++ {
		items := make([]int, 0, len(counts[u]))
		for it := range counts[u] {
			items = append(items, it)
		}
		sort.Ints(items)
		rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
		h := c.HoldoutPerUser
		if h > len(items)-1 {
			h = len(items) - 1 // keep at least one training interaction
		}
		if h < 0 {
			h = 0
		}
		held[u] = append([]int(nil), items[:h]...)
		sort.Ints(held[u])
		for _, it := range items[h:] {
			coo.Add(it, u, float64(counts[u][it]))
		}
	}
	return &Dataset{
		Config:    c,
		Train:     coo.ToCSR(),
		Held:      held,
		UserGroup: userGroup,
		ItemGroup: itemGroup,
	}, nil
}

// Recommender produces a ranked list of item IDs for a user, excluding
// items the user already consumed in training.
type Recommender interface {
	Recommend(user, n int) []int
}

// LSIRecommender scores items by the rank-k reconstruction of the user's
// interaction column: score = (Uₖ·Uₖᵀ·a_u)_item. With taste groups as
// latent factors, the reconstruction transfers weight onto same-group items
// the user has not seen — the collaborative-filtering analogue of LSI
// retrieving synonym documents.
type LSIRecommender struct {
	data *Dataset
	uk   *mat.Dense
	seen []map[int]bool
}

// NewLSIRecommender factorizes the training matrix at rank k.
func NewLSIRecommender(d *Dataset, k int, seed int64) (*LSIRecommender, error) {
	if k < 1 {
		return nil, fmt.Errorf("cf: rank k = %d, want >= 1", k)
	}
	res, err := svd.Randomized(d.Train.Block(), k, svd.RandomizedOptions{
		Rng: rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		return nil, err
	}
	seen := make([]map[int]bool, d.Config.Users)
	for u := 0; u < d.Config.Users; u++ {
		seen[u] = map[int]bool{}
	}
	items, users := d.Train.Dims()
	_ = users
	for it := 0; it < items; it++ {
		d.Train.RowIter(it, func(u int, v float64) {
			seen[u][it] = true
		})
	}
	return &LSIRecommender{data: d, uk: res.U, seen: seen}, nil
}

// Recommend implements Recommender.
func (r *LSIRecommender) Recommend(user, n int) []int {
	col := r.data.Train.Col(user)
	proj := mat.MulTVec(r.uk, col)   // Uₖᵀ·a_u
	scores := mat.MulVec(r.uk, proj) // Uₖ·Uₖᵀ·a_u
	return rankUnseen(scores, r.seen[user], n)
}

// PopularityRecommender ranks items by global training interaction count —
// the standard non-personalized baseline.
type PopularityRecommender struct {
	data   *Dataset
	counts []float64
	seen   []map[int]bool
}

// NewPopularityRecommender tallies global item counts.
func NewPopularityRecommender(d *Dataset) *PopularityRecommender {
	items, users := d.Train.Dims()
	counts := make([]float64, items)
	seen := make([]map[int]bool, users)
	for u := range seen {
		seen[u] = map[int]bool{}
	}
	for it := 0; it < items; it++ {
		d.Train.RowIter(it, func(u int, v float64) {
			counts[it] += v
			seen[u][it] = true
		})
	}
	return &PopularityRecommender{data: d, counts: counts, seen: seen}
}

// Recommend implements Recommender.
func (r *PopularityRecommender) Recommend(user, n int) []int {
	return rankUnseen(r.counts, r.seen[user], n)
}

func rankUnseen(scores []float64, seen map[int]bool, n int) []int {
	type cand struct {
		item  int
		score float64
	}
	cands := make([]cand, 0, len(scores))
	for it, s := range scores {
		if !seen[it] {
			cands = append(cands, cand{it, s})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		return cands[a].item < cands[b].item
	})
	if n > 0 && n < len(cands) {
		cands = cands[:n]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.item
	}
	return out
}

// HitRateAtN returns the fraction of users for whom at least one held-out
// item appears in the recommender's top-N, and the mean per-user recall of
// held-out items within the top-N. Users with no held-out items are
// skipped.
func HitRateAtN(d *Dataset, r Recommender, n int) (hitRate, recall float64) {
	usersEvaluated := 0
	for u := 0; u < d.Config.Users; u++ {
		if len(d.Held[u]) == 0 {
			continue
		}
		usersEvaluated++
		heldSet := map[int]bool{}
		for _, it := range d.Held[u] {
			heldSet[it] = true
		}
		rec := r.Recommend(u, n)
		hits := 0
		for _, it := range rec {
			if heldSet[it] {
				hits++
			}
		}
		if hits > 0 {
			hitRate++
		}
		recall += float64(hits) / float64(len(d.Held[u]))
	}
	if usersEvaluated == 0 {
		return 0, 0
	}
	return hitRate / float64(usersEvaluated), recall / float64(usersEvaluated)
}
