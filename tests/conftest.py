"""Hypothesis profiles.

``plant`` is for runs against a deliberately broken copy of the
library: it generates examples as usual but never shrinks a failing
one, so a test that catches the fault fails in seconds rather than
shrinking for minutes. Select it with ``--hypothesis-profile=plant``;
the default profile is unchanged.
"""

from hypothesis import Phase, settings

settings.register_profile("plant", phases=[Phase.explicit, Phase.reuse, Phase.generate])
