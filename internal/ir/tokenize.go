// Package ir provides the text-processing substrate an LSI system needs to
// run on real documents rather than pre-built matrices: a tokenizer, an
// English stopword list (the paper notes ε-separability is "reasonably
// realistic, since documents are usually preprocessed to eliminate
// commonly-occurring stop-words"), the Porter stemmer, a vocabulary
// builder, and the standard retrieval-evaluation metrics (precision and
// recall at k, average precision and its mean over queries) used to
// compare LSI against the conventional vector-space baseline.
package ir

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize lowercases the text and splits it into maximal runs of letters.
// Digits, punctuation, and symbols separate tokens; the result contains no
// empty strings.
func Tokenize(text string) []string { return appendTokens(nil, text) }

// appendTokens appends Tokenize(text) to dst. A run of lower-case ASCII
// letters that ends at an ASCII non-letter (or the end of the text) is
// already its own token and is sliced out of text without copying — the
// common case by far once a corpus has been through any normaliser. A
// token that contains an upper-case letter or a byte ≥ 0x80 is rebuilt
// rune by rune from its first byte: lowering can change a letter's length
// (İ → i), not every such byte starts a letter (é is one, × is not), and
// invalid UTF-8 separates tokens.
func appendTokens(dst []string, text string) []string {
	for i := 0; i < len(text); {
		j := i
		for j < len(text) && 'a' <= text[j] && text[j] <= 'z' {
			j++
		}
		if j == len(text) || text[j] < utf8.RuneSelf && (text[j] < 'A' || text[j] > 'Z') {
			if j > i {
				dst = append(dst, text[i:j])
			}
			i = j + 1 // past the separator
			continue
		}
		var b strings.Builder
		for i < len(text) {
			r, size := utf8.DecodeRuneInString(text[i:])
			i += size
			if !unicode.IsLetter(r) {
				break
			}
			b.WriteRune(unicode.ToLower(r))
		}
		if b.Len() > 0 {
			dst = append(dst, b.String())
		}
	}
	return dst
}
