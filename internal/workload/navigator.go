package workload

import (
	"millibalance/internal/sim"
)

// successors lists each interaction's natural next steps in the RUBBoS
// navigation graph (view a story, then its comments; open a form, then
// submit it; and so on).
var successors = map[string][]string{
	"StoriesOfTheDay":         {"ViewStory", "BrowseCategories", "OlderStories"},
	"BrowseCategories":        {"BrowseStoriesByCategory"},
	"BrowseStoriesByCategory": {"ViewStory", "OlderStories"},
	"OlderStories":            {"ViewStory"},
	"ViewStory":               {"ViewComment", "PostCommentForm", "ViewStory"},
	"ViewComment":             {"ViewComment", "PostCommentForm", "ModerateCommentForm", "ViewStory"},
	"PostCommentForm":         {"StoreComment"},
	"StoreComment":            {"ViewStory", "StoriesOfTheDay"},
	"ModerateCommentForm":     {"StoreModerateLog"},
	"StoreModerateLog":        {"ViewComment", "StoriesOfTheDay"},
	"SubmitStoryForm":         {"StoreStory"},
	"StoreStory":              {"StoriesOfTheDay"},
	"SearchForm":              {"SearchInStories", "SearchInComments", "SearchInUsers"},
	"SearchInStories":         {"ViewStory", "SearchForm"},
	"SearchInComments":        {"ViewComment", "SearchForm"},
	"SearchInUsers":           {"SearchForm", "StoriesOfTheDay"},
	"RegisterUserForm":        {"RegisterUser"},
	"RegisterUser":            {"StoriesOfTheDay"},
	"AuthorLoginForm":         {"AuthorLogin"},
	"AuthorLogin":             {"AuthorTasks"},
	"AuthorTasks":             {"ReviewStories"},
	"ReviewStories":           {"AcceptStory", "RejectStory", "ReviewStories"},
	"AcceptStory":             {"ReviewStories", "StoriesOfTheDay"},
	"RejectStory":             {"ReviewStories", "StoriesOfTheDay"},
}

// Navigator walks the interaction mix as a Markov chain: with probability
// followProb it follows one of the current interaction's natural
// successors (restricted to those present in the mix); otherwise it
// samples the mix's stationary weights. The chain therefore produces
// session-like traces while preserving the configured mix proportions in
// the long run.
type Navigator struct {
	eng        *sim.Engine
	mix        *mixIndex
	followProb float64
	cur        int32 // -1 before the first step
}

// mixIndex is a mix with the navigation graph resolved against it: for
// each interaction, by index, the indices of its natural successors
// that exist in the mix, in the graph's order. Resolving the graph's
// names once per mix makes a step of the chain a slice index instead of
// string-keyed map lookups and a scratch slice per request.
type mixIndex struct {
	Mix
	successors [][]int
}

// NewNavigator returns a navigator over the mix. followProb is clamped
// to [0, 1].
func NewNavigator(eng *sim.Engine, mix Mix, followProb float64) *Navigator {
	nav := newNavigator(eng, indexMix(mix), followProb)
	return &nav
}

// indexMix resolves the navigation graph for a mix; Group does it once
// and shares the result across tens of thousands of clients.
func indexMix(mix Mix) *mixIndex {
	byName := make(map[string]int, len(mix.Interactions))
	for i, it := range mix.Interactions {
		byName[it.Name] = i
	}
	idx := &mixIndex{Mix: mix, successors: make([][]int, len(mix.Interactions))}
	for i, it := range mix.Interactions {
		for _, s := range successors[it.Name] {
			if j, ok := byName[s]; ok {
				idx.successors[i] = append(idx.successors[i], j)
			}
		}
	}
	return idx
}

// newNavigator returns a navigator at the start of its chain, by value:
// a Group keeps one and steps it over each client's own cursor.
func newNavigator(eng *sim.Engine, mix *mixIndex, followProb float64) Navigator {
	if followProb < 0 {
		followProb = 0
	}
	if followProb > 1 {
		followProb = 1
	}
	return Navigator{eng: eng, mix: mix, followProb: followProb, cur: -1}
}

// Next advances the chain and returns the next interaction to issue.
func (n *Navigator) Next() *Interaction { return n.step(&n.cur) }

// step advances a chain whose current interaction is *cur (-1 before the
// first step) instead of the navigator's own, so one navigator serves
// many walkers.
func (n *Navigator) step(cur *int32) *Interaction {
	next := -1
	if *cur >= 0 && n.eng.Bernoulli(n.followProb) {
		next = n.pickSuccessor(int(*cur))
	}
	if next < 0 {
		next = n.eng.PickWeighted(n.mix.Weights)
	}
	*cur = int32(next)
	return &n.mix.Interactions[next]
}

// pickSuccessor returns the index of a uniformly chosen natural successor
// of interaction cur that exists in the mix, or -1 when none do.
func (n *Navigator) pickSuccessor(cur int) int {
	candidates := n.mix.successors[cur]
	if len(candidates) == 0 {
		return -1
	}
	return candidates[n.eng.Rand().IntN(len(candidates))]
}
