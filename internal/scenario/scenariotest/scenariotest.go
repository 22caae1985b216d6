// Package scenariotest holds test helpers for code that validates
// scenarios through scenario.File's build-free checks.
package scenariotest

import (
	"fmt"

	"repro/internal/scenario"
)

// CheckAgreement reports whether each of the file's build-free checks
// gives the verdict of the builder it stands for, with the same error
// text: Check that of Spec, CheckTrace that of Spec followed by
// BuildTrace, and CheckRuntime that of RuntimeSpec. A nil result means
// all three agree.
func CheckAgreement(f *scenario.File) error {
	spec, specErr := f.Spec()
	if err := agree("Check", f.Check(), "Spec", specErr); err != nil {
		return err
	}
	traceErr := specErr
	if specErr == nil {
		_, traceErr = f.BuildTrace(spec)
	}
	if err := agree("CheckTrace", f.CheckTrace(), "BuildTrace", traceErr); err != nil {
		return err
	}
	_, runtimeErr := f.RuntimeSpec()
	return agree("CheckRuntime", f.CheckRuntime(), "RuntimeSpec", runtimeErr)
}

func agree(check string, checkErr error, builder string, builderErr error) error {
	if errText(checkErr) != errText(builderErr) {
		return fmt.Errorf("%s says %s, %s says %s", check, errText(checkErr), builder, errText(builderErr))
	}
	return nil
}

func errText(err error) string {
	if err == nil {
		return "ok"
	}
	return fmt.Sprintf("%q", err.Error())
}
