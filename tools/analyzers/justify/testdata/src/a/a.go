// Fixture for the justify analyzer: every suppression must say why, and
// directives must match a registered marker.
package a

//simlint:hotpath
func hot() {}

func reasoned() {
	//simlint:deterministic iteration order feeds the sort below
	m := map[int]int{}
	//simlint:alloc scratch buffer reused across frames
	_ = make([]byte, 0, len(m))
}

func bare() {
	//simlint:shared // want `requires a written justification`
	_ = 0
	//simlint:alloc // want `requires a written justification`
	_ = 1
	//simlint:frameown // want `requires a written justification`
	_ = 2
}

func typo() {
	//simlint:sharde grew by one letter // want `unknown simlint directive //simlint:sharde`
	_ = 3
}
