"""The suite's own pytest settings: a failing property test is reported as a failure."""

pytest_plugins = ["pytester"]


def test_failing_hypothesis_test_is_one_failure_not_an_internal_error(pytester, request):
    # hypothesis prints a failing example through code whose import warns;
    # under the suite's warnings-as-errors that must not crash the run
    filters = request.config.getini("filterwarnings")
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_negative(x):
            assert x < 0
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
