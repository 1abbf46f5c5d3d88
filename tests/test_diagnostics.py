import warnings

from spectomo.diagnostics import capture, emit


def test_capture_collects_diagnostics_and_passes_other_warnings_on():
    with warnings.catch_warnings(record=True) as outside:
        warnings.simplefilter("always")
        with capture() as diags:
            emit("first", "one")
            warnings.warn("not a diagnostic", UserWarning)
            emit("second", "two")
    assert [d.code for d in diags] == ["first", "second"]
    assert [str(w.message) for w in outside] == ["not a diagnostic"]
    assert outside[0].filename == __file__

