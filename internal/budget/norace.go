//go:build !race

package budget

const Race = false
