package analysis

import (
	"strings"
)

// IgnoreHygiene keeps the suppressions honest: every //cgvet:ignore must
// say *why* — `//cgvet:ignore goleak -- reader unblocks when the session
// closes conn`. A bare ignore is a finding in
// its own right, because an unsupervised suppression is how an invariant
// dies quietly: the code changes, the reason (if there ever was one)
// stops holding, and nothing notices.
//
// Findings from this analyzer bypass the suppression machinery — a bare
// ignore cannot ignore the complaint about itself.
var IgnoreHygiene = &Analyzer{
	Name: "ignorehygiene",
	Doc:  "every //cgvet:ignore must carry a `-- reason` justification",
	Run:  runIgnoreHygiene,
}

func runIgnoreHygiene(pass *Pass) {
	for _, file := range pass.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				body, ok := ignoreDirectiveBody(c.Text)
				if !ok {
					continue
				}
				if _, reason := splitIgnoreReason(body); strings.TrimSpace(reason) == "" {
					pass.Reportf(c.Pos(),
						"bare //cgvet:ignore without a justification; write `//cgvet:ignore %s -- <why the invariant holds here>`",
						strings.TrimSpace(body))
				}
			}
		}
	}
}

// ignoreDirectiveBody extracts the text after "cgvet:ignore" in a line
// comment, reporting whether the directive is present at all.
func ignoreDirectiveBody(comment string) (string, bool) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	rest, ok := strings.CutPrefix(text, ignoreDirective)
	if !ok {
		return "", false
	}
	return rest, true
}

// splitIgnoreReason splits a directive body into the analyzer-name list
// and the justification, accepting both "--" and the em dash "—" as the
// separator.
func splitIgnoreReason(body string) (names, reason string) {
	for _, sep := range []string{"--", "—"} {
		if i := strings.Index(body, sep); i >= 0 {
			return body[:i], body[i+len(sep):]
		}
	}
	return body, ""
}
