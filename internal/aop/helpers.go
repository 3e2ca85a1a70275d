package aop

// Helper constructors covering the advice forms the platform's extensions
// use. Field-set advice fires before the store: the new value is Args[0] and
// may be rewritten or vetoed.

// BeforeCall returns advice running at the entry of methods matching pattern.
func BeforeCall(pattern string, body Body) Advice {
	return Advice{When: Before, Cut: Cut(MethodEntry, pattern), Body: body}
}

// OnFieldSet returns advice running when a matching field is written.
func OnFieldSet(pattern string, body Body) Advice {
	return Advice{When: Before, Cut: Cut(FieldSet, pattern), Body: body}
}
