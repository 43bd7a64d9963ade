"""The digests of the corpus in tests/corpus_digest.py, pinned: a change
that moves any output bit of its 3,000 games or 1,200 follower solves fails
here. A numerics change that moves bits on purpose re-pins both and names
the change in CHANGES.md."""

from tests.corpus_digest import games_digest, solves_digest

GAMES_SHA256 = "0ebb9ad01870b3911134e8ea4c5030709e5c6a8f2d523bee51f74068e1b99ba1"
SOLVES_SHA256 = "a9a5f2265d1716c4fa7d54b98d3d4342cb09d006b2cb721cd1c279255c2fec2c"


def test_games_match_their_pinned_digest():
    assert games_digest() == (GAMES_SHA256, 3000)


def test_follower_solves_match_their_pinned_digest():
    assert solves_digest() == (SOLVES_SHA256, 1200)
