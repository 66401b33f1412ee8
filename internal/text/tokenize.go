// Package text provides the text-processing substrate for the knowledge
// graph: tokenization, Porter stemming, synonym expansion and a global
// word dictionary. The Jaccard similarity of the paper's score3 is computed
// over TokenSet by the index builder (internal/index, wordSims).
//
// The paper (Section 3) stores, for every word, its stemmed version and
// synonyms pointing at the same path-pattern entries; this package supplies
// those normal forms.
package text

import (
	"strings"
	"unicode"
)

// Tokenize splits s into lowercase word tokens. A token is a maximal run of
// letters or digits; everything else (punctuation, currency signs, spaces)
// separates tokens. "US$ 77 billion" tokenizes to ["us", "77", "billion"].
func Tokenize(s string) []string {
	var toks []string
	start := -1
	lower := strings.ToLower(s)
	for i, r := range lower {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			toks = append(toks, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		toks = append(toks, lower[start:])
	}
	return toks
}

// TokenSet returns the set of distinct tokens of s, preserving first-seen
// order. The Jaccard similarity of score3 is defined over token sets, so
// repeated words in an entity description count once.
func TokenSet(s string) []string {
	toks := Tokenize(s)
	seen := make(map[string]struct{}, len(toks))
	out := toks[:0]
	for _, t := range toks {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
