package ir

// defaultStopwords is a standard English stopword list (the classic van
// Rijsbergen-derived set, trimmed to the words that actually occur in
// typical corpora). Removing them is the preprocessing step the paper cites
// when arguing that ε-separability is realistic.
var defaultStopwords = map[string]bool{
	"a": true, "about": true, "above": true, "after": true, "again": true,
	"against": true, "all": true, "am": true, "an": true, "and": true,
	"any": true, "are": true, "as": true, "at": true, "be": true,
	"because": true, "been": true, "before": true, "being": true,
	"below": true, "between": true, "both": true, "but": true, "by": true,
	"can": true, "cannot": true, "could": true, "did": true, "do": true,
	"does": true, "doing": true, "down": true, "during": true, "each": true,
	"few": true, "for": true, "from": true, "further": true, "had": true,
	"has": true, "have": true, "having": true, "he": true, "her": true,
	"here": true, "hers": true, "herself": true, "him": true,
	"himself": true, "his": true, "how": true, "i": true, "if": true,
	"in": true, "into": true, "is": true, "it": true, "its": true,
	"itself": true, "me": true, "more": true, "most": true, "my": true,
	"myself": true, "no": true, "nor": true, "not": true, "of": true,
	"off": true, "on": true, "once": true, "only": true, "or": true,
	"other": true, "ought": true, "our": true, "ours": true,
	"ourselves": true, "out": true, "over": true, "own": true, "same": true,
	"she": true, "should": true, "so": true, "some": true, "such": true,
	"than": true, "that": true, "the": true, "their": true, "theirs": true,
	"them": true, "themselves": true, "then": true, "there": true,
	"these": true, "they": true, "this": true, "those": true,
	"through": true, "to": true, "too": true, "under": true, "until": true,
	"up": true, "very": true, "was": true, "we": true, "were": true,
	"what": true, "when": true, "where": true, "which": true, "while": true,
	"who": true, "whom": true, "why": true, "with": true, "would": true,
	"you": true, "your": true, "yours": true, "yourself": true,
	"yourselves": true,
}

// IsStopword reports whether the (lowercase) token is in the default
// English stopword list.
func IsStopword(token string) bool { return defaultStopwords[token] }
