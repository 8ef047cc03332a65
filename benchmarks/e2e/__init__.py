"""End-to-end benchmark of the ViTri stack (see README.md in this directory)."""

from __future__ import annotations
