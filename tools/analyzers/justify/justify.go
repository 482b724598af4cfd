// Package justify audits the suite's own escape hatches. Every
// `//simlint:*` justification marker silences some analyzer, and the whole
// point of the directive convention is that the silencing carries its reason
// in the source — a bare marker is an unexplained suppression that outlives
// whoever added it. This analyzer rejects:
//
//   - justification markers with no reason text (`//simlint:shared` alone;
//     a nested comment like `//simlint:shared // later` does not count);
//   - directives that match no registered marker (`//simlint:sharde`), which
//     would otherwise silence nothing and rot silently.
//
// The per-site analyzers also reject bare markers they find attached to a
// real finding; this check additionally catches stale annotations whose
// finding has since moved or disappeared.
package justify

import (
	"go/ast"
	"slices"
	"strings"

	"repro/tools/analyzers/analysis"
)

// Analyzer is the escape-hatch audit.
var Analyzer = &analysis.Analyzer{
	Name: "justify",
	Doc:  "rejects bare simlint justification markers and unknown directives",
	Run:  run,
}

// prefix is the directive namespace shared by every marker.
const prefix = "//simlint:"

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				checkComment(pass, c)
			}
		}
	}
	return nil, nil
}

func checkComment(pass *analysis.Pass, c *ast.Comment) {
	word, ok := directive(c.Text)
	switch {
	case !ok:
	case !slices.Contains(analysis.Markers, word):
		pass.Reportf(c.Pos(), "unknown simlint directive %s (known: %s)", word, knownList())
	default:
		reason := strings.TrimSpace(c.Text[len(word):])
		if reason == "" || strings.HasPrefix(reason, "//") {
			pass.Reportf(c.Pos(), "%s requires a written justification; say why the site is safe", word)
		}
	}
}

// directive returns the marker word of a //simlint: comment.
func directive(text string) (string, bool) {
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	if i := strings.IndexAny(text, " \t"); i >= 0 {
		return text[:i], true
	}
	return text, true
}

// knownList renders the registered markers for the unknown-directive message.
func knownList() string {
	names := make([]string, len(analysis.Markers))
	for i, m := range analysis.Markers {
		names[i] = strings.TrimPrefix(m, prefix)
	}
	return strings.Join(names, ", ")
}
