// Fixture for the justify analyzer: every suppression must say why, and
// directives must match a registered marker.
package a

func reasoned() {
	//simlint:deterministic iteration order feeds the sort below
	m := map[int]int{}
	//simlint:shared read-only after init
	_ = len(m)
}

func bare() {
	//simlint:shared // want `requires a written justification`
	_ = 0
	//simlint:deterministic // want `requires a written justification`
	_ = 1
}

func typo() {
	//simlint:sharde grew by one letter // want `unknown simlint directive //simlint:sharde`
	_ = 3
}
