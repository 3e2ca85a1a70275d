package overload

// DefaultClasses exposes the method→class table to the external tests.
var DefaultClasses = defaultClasses
