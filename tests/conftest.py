"""Test setup shared by every test module, run once before collection."""

import warnings

# When a @given test fails, hypothesis's pytest plugin imports
# hypothesis.extra._patching, which imports libcst, which uses the deprecated
# mypy_extensions.TypedDict.  Under -W error::DeprecationWarning that import
# raises inside the plugin and the run ends in INTERNALERROR instead of
# printing the falsifying example.  Importing the module once here, with only
# that warning ignored, leaves it cached for the plugin.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message=r"mypy_extensions\.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
