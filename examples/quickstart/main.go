// Quickstart: index a handful of text documents through the public
// retrieval package and query them, demonstrating the synonymy behaviour
// that motivates the paper — a query for "car" retrieves "automobile"
// documents under LSI but not under the conventional vector-space model.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/retrieval"
)

func main() {
	// LSI merges synonyms through shared context: the "car" and
	// "automobile" documents never use each other's word, but they share
	// engine / mechanic / dealership / driver vocabulary, so the dominant
	// singular direction of the vehicle topic loads on both.
	docs := []string{
		"The car dealership sells cars, and the mechanic checks every engine before delivery.", // 0: car
		"An automobile dealership services automobile engines, brakes and transmissions.",      // 1: automobile
		"The automobile mechanic repaired the engine and adjusted the brakes for the driver.",  // 2: automobile
		"The car driver praised the mechanic after the engine repair and brake service.",       // 3: car
		"Astronomers observed the galaxy through a telescope and charted the stars.",           // 4: space
		"The telescope revealed stars and planets scattered across the galaxy.",                // 5: space
		"A starship in the novel travels between stars, planets and distant galaxies.",         // 6: space
		"Fresh basil, olive oil and garlic simmer into a fragrant pasta sauce.",                // 7: cooking
		"The pasta recipe calls for garlic, olive oil and a slow-simmered tomato sauce.",       // 8: cooking
	}

	// One constructor per system: the same corpus behind the same
	// Retriever interface. Tokenization, stopword removal, stemming, and
	// the vocabulary are handled inside, identically for both.
	index, err := retrieval.BuildTexts(docs, retrieval.WithRank(3))
	if err != nil {
		log.Fatal(err)
	}
	corpus := make([]retrieval.Document, len(docs))
	for i, text := range docs {
		corpus[i] = retrieval.Document{Text: text}
	}
	baseline, err := retrieval.BuildVSM(corpus)
	if err != nil {
		log.Fatal(err)
	}

	// Query for "car": documents 1 and 2 never use the word.
	ctx := context.Background()
	fmt.Println("Query: \"car\"")
	fmt.Println("\nLSI ranking (semantic):")
	results, err := index.Search(ctx, "car", 4)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range results {
		fmt.Printf("  doc %d  score=%.3f  %s\n", m.Doc, m.Score, docs[m.Doc])
	}
	fmt.Println("\nVector-space ranking (literal):")
	results, err = baseline.Search(ctx, "car", 4)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range results {
		fmt.Printf("  doc %d  score=%.3f  %s\n", m.Doc, m.Score, docs[m.Doc])
	}
	fmt.Println("\nNote how LSI surfaces the \"automobile\" documents that literal")
	fmt.Println("term matching cannot reach — the synonymy effect of Section 4.")
}
