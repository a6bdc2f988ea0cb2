"""Token-indexed rule lookup.

Real ad blockers never scan 60k rules per request: each rule is indexed
by a distinctive substring token, and only rules whose token occurs in
the request URL are tried.  This module implements that scheme — both
for fidelity and because the synthetic render benchmarks issue tens of
thousands of lookups.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Dict, Iterable, List

from repro.filterlist.rules import NetworkRule

_TOKEN_RE = re.compile(r"[a-z0-9]{3,}")
_WILDCARD_SPLIT = re.compile(r"[*^|]")


def rule_tokens(pattern: str) -> List[str]:
    """Candidate index tokens of a rule pattern.

    Tokens are the alphanumeric runs (length >= 3) of the pattern's
    literal segments — wildcard and anchor characters break segments.
    """
    tokens: List[str] = []
    for segment in _WILDCARD_SPLIT.split(pattern.lower()):
        tokens.extend(_TOKEN_RE.findall(segment))
    return tokens


def best_token(pattern: str) -> str:
    """Pick the most selective (longest) token, or "" if none exists."""
    tokens = rule_tokens(pattern)
    if not tokens:
        return ""
    return max(tokens, key=len)


class TokenIndex:
    """Maps URL tokens to the subset of rules that could match."""

    def __init__(self, rules: Iterable[NetworkRule]) -> None:
        self._by_token: Dict[str, List[NetworkRule]] = defaultdict(list)
        self._tokenless: List[NetworkRule] = []
        count = 0
        for rule in rules:
            token = best_token(rule.pattern)
            if token:
                self._by_token[token].append(rule)
            else:
                self._tokenless.append(rule)
            count += 1
        self._size = count

    def __len__(self) -> int:
        return self._size

    def candidates(self, url: str) -> List[NetworkRule]:
        """Rules whose index token occurs in ``url`` (plus tokenless)."""
        url_tokens = set(_TOKEN_RE.findall(url.lower()))
        found: List[NetworkRule] = []
        for token in url_tokens:
            found.extend(self._by_token.get(token, ()))
        found.extend(self._tokenless)
        return found
