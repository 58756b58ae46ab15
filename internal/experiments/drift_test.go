package experiments

import "testing"

// The drift table's shape at test size. Folded-in in-model tails rank
// like a fresh build: within a factor 2 of its tail share, and closer to
// its top-10 than the re-decomposed tiers, which fill more slots than
// both. Unseen-topic tails reach well under the fresh build's share
// either way: re-decomposing them tier by tier does not repair them. The
// residual share separates in-model fold-ins from unseen topics by far
// more than the in-model spread.
func TestRunDriftSmall(t *testing.T) {
	res, err := RunDrift(SmallDriftConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tails) != 4 || len(res.Shares) != 3 {
		t.Fatalf("%d tails, %d share rows", len(res.Tails), len(res.Shares))
	}
	for _, tl := range res.Tails {
		switch {
		case tl.Unseen && (tl.FoldShare > 0.75*tl.FreshShare || tl.RedoShare > 0.75*tl.FreshShare):
			t.Errorf("unseen tail %d: fold-in %.3f / re-decomposed %.3f of fresh %.3f", tl.Docs, tl.FoldShare, tl.RedoShare, tl.FreshShare)
		case tl.Unseen:
		case tl.FoldShare > 2*tl.FreshShare || tl.FoldShare < tl.FreshShare/2:
			t.Errorf("tail %d: fold-in share %.3f not within a factor 2 of fresh %.3f", tl.Docs, tl.FoldShare, tl.FreshShare)
		case tl.FoldOverlap <= tl.RedoOverlap:
			t.Errorf("tail %d: fold-in overlap %.3f not above the re-decomposed %.3f", tl.Docs, tl.FoldOverlap, tl.RedoOverlap)
		}
	}
	fitted, inModel, unseen := res.Shares[0], res.Shares[1], res.Shares[2]
	if fitted.Max-fitted.Reference > 0.1 || inModel.Max-inModel.Reference > 0.1 {
		t.Errorf("in-model tiers read up to %.3f / %.3f against the reference %.3f", fitted.Max, inModel.Max, fitted.Reference)
	}
	if unseen.Min-unseen.Reference < 0.5 {
		t.Errorf("unseen-topic tiers read only %.3f over the reference", unseen.Min-unseen.Reference)
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
}
