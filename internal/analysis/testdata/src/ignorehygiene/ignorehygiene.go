// Fixture for the ignorehygiene analyzer: bare ignores (nameless or
// named) are findings; justified ones — with "--" or an em dash — are
// not. The nameless bare ignore also exercises the suppression bypass:
// it would silence every analyzer on its line, including the one
// complaining about it. The expectations sit in block comments so they
// stay out of the directives they describe.
package ignorehygiene

func bareNameless() {
	x := 1
	_ = x /* want `bare //cgvet:ignore` */ //cgvet:ignore
}

func bareNamed() {
	y := 2
	_ = y /* want `bare //cgvet:ignore` */ //cgvet:ignore goleak
}

func justified() {
	z := 3
	_ = z //cgvet:ignore goleak -- owner-local until published
}

func justifiedEmDash() {
	w := 4
	_ = w //cgvet:ignore errflow — fsynced before the close
}
