"""Hypothesis profiles.

``plant`` is for runs against a deliberately broken copy of the
library: it generates examples as usual but never shrinks a failing
one, so a test that catches the fault fails in seconds rather than
shrinking for minutes. Select it with ``--hypothesis-profile=plant``;
the default profile is unchanged.

``ci`` is for runs that keep no example database: a failing example is
printed with its ``@reproduce_failure`` blob, so it can be replayed
locally. Select it with ``--hypothesis-profile=ci``.
"""

from hypothesis import Phase, settings

settings.register_profile("plant", phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.register_profile("ci", print_blob=True)
