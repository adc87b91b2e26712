"""Readers of the program's output files, for the tests.

The program only writes its series CSVs and JSON reports (``fkdvlab.io``);
the tests read them back with these.
"""

import json


def read_series(path):
    """(abscissa, {column name: values}) of a series CSV, the abscissa the
    first column."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        cols = {name: [] for name in header}
        for line in fh:
            for name, value in zip(header, line.strip().split(",")):
                cols[name].append(float(value))
    abscissa = cols.pop(header[0])
    return abscissa, cols


def read_report(path):
    with open(path) as fh:
        return json.load(fh)
