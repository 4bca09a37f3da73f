"""Embedded memory architecture models.

Section 3 of the paper names "embedded memory architecture tradeoffs
(embedded SRAM, eDRAM and eFlash, v.s. external memories)" as one of
the two main design issues at the platform level.  This package models
the four memory technologies and explores the tradeoff (experiment
E17).
"""
