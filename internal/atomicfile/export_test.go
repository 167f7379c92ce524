package atomicfile

// SetHook installs the step hook for a test.
func SetHook(f func(step string)) { hook = f }
